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
//! Concurrency: writers serialize on a host-side tree lock; readers
//! proceed under a shared lock. (NBTree's lock-free read protocol is a
//! host-performance optimization; virtual-time costs, which all
//! experiments measure, are charged per node access and are identical.)

use std::sync::atomic::{AtomicU64, Ordering};

use parking_lot::RwLock;
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

// Root-slot word offsets.
const R_ROOT: u64 = 0;
const R_FIRST_LEAF: u64 = 8;
const R_ALLOC: u64 = 16; // Two words.
const R_COUNT: u64 = 32;
const R_SPLITTING: u64 = 40;
const R_FREE: u64 = 48;

/// Pseudo-thread offset for the split's analyzer transaction: the trace
/// events a split emits under `trace` use a disjoint thread id
/// so they can never clobber the per-thread transaction state of an
/// engine-level transaction recorded on the real thread.
#[cfg(feature = "trace")]
const SPLIT_THREAD_OFFSET: usize = 1 << 20;

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
    #[cfg(feature = "trace")]
    skip_wb: AtomicU64,
    /// Fault injection: skip the next split commit fence.
    #[cfg(feature = "trace")]
    skip_fence: std::sync::atomic::AtomicBool,
    /// Monotonic id source for split pseudo-transactions.
    #[cfg(feature = "trace")]
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
        t.init_node(leaf, true, ctx);
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
            #[cfg(feature = "trace")]
            skip_wb: AtomicU64::new(u64::MAX),
            #[cfg(feature = "trace")]
            skip_fence: std::sync::atomic::AtomicBool::new(false),
            #[cfg(feature = "trace")]
            split_seq: AtomicU64::new(0),
        }
    }

    // ------------------------------------------------------------------
    // Ordered-durability primitives.
    // ------------------------------------------------------------------

    /// The one protected write-back primitive: announce durable intent
    /// for `[addr, addr+len)` to the trace (under `trace`), then
    /// write the range back when the domain is ADR. Every flush of the
    /// mutation paths funnels through here so the analyzer sees the
    /// intent and the fault-injection hook can drop exactly one.
    fn wbr(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        #[cfg(feature = "trace")]
        {
            self.dev.trace_emit(pmem_sim::trace::Event::DurableHint {
                thread: ctx.thread_id,
                addr: addr.0,
                len,
            });
            if self.take_injected_skip() {
                return;
            }
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
        #[cfg(feature = "trace")]
        if self.skip_fence.swap(false, Ordering::Relaxed) {
            return;
        }
        self.fence_if_adr(ctx);
    }

    #[cfg(feature = "trace")]
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
    // Split pseudo-transaction trace markers (`trace` only).
    // ------------------------------------------------------------------

    /// Open the split's analyzer transaction: switch the context to the
    /// split pseudo-thread and emit `TxnBegin`, so rules R1/R3 check the
    /// split's stores, write-backs, and fences in isolation.
    fn t_split_begin(&self, ctx: &mut MemCtx) {
        #[cfg(feature = "trace")]
        {
            ctx.thread_id += SPLIT_THREAD_OFFSET;
            let tid = self.split_seq.fetch_add(1, Ordering::Relaxed) | (1 << 63);
            self.dev.trace_emit(pmem_sim::trace::Event::TxnBegin {
                thread: ctx.thread_id,
                tid,
            });
        }
        let _ = ctx;
    }

    /// Register `[addr, addr+len)` as split-transaction log state (R1
    /// requires it durable when the flag clears).
    fn t_log(&self, addr: PAddr, len: u64, ctx: &mut MemCtx) {
        #[cfg(feature = "trace")]
        self.dev.trace_emit(pmem_sim::trace::Event::LogRange {
            thread: ctx.thread_id,
            addr: addr.0,
            len,
        });
        let _ = (addr, len, ctx);
    }

    /// Announce the flag-clear store as the split's commit record (R3
    /// requires a fence between it and the split's structural stores).
    fn t_commit_record(&self, addr: PAddr, ctx: &mut MemCtx) {
        #[cfg(feature = "trace")]
        self.dev.trace_emit(pmem_sim::trace::Event::CommitRecord {
            thread: ctx.thread_id,
            addr: addr.0,
        });
        let _ = (addr, ctx);
    }

    /// Close the split's analyzer transaction and restore the caller's
    /// thread id.
    fn t_split_end(&self, ctx: &mut MemCtx) {
        #[cfg(feature = "trace")]
        {
            let tid = (self.split_seq.load(Ordering::Relaxed) - 1) | (1 << 63);
            self.dev.trace_emit(pmem_sim::trace::Event::TxnCommit {
                thread: ctx.thread_id,
                tid,
            });
            ctx.thread_id -= SPLIT_THREAD_OFFSET;
        }
        let _ = ctx;
    }

    // ------------------------------------------------------------------
    // Node accessors.
    // ------------------------------------------------------------------

    fn init_node(&self, n: PAddr, leaf: bool, ctx: &mut MemCtx) {
        self.dev.store_u64(n.add(N_LEAF), u64::from(leaf), ctx);
        self.dev.store_u64(n.add(N_COUNT), 0, ctx);
        self.dev.store_u64(n.add(N_NEXT), 0, ctx);
    }

    #[inline]
    fn root(&self, ctx: &mut MemCtx) -> PAddr {
        PAddr(self.dev.load_u64(self.root_slot.add(R_ROOT), ctx))
    }

    #[inline]
    fn is_leaf(&self, n: PAddr, ctx: &mut MemCtx) -> bool {
        self.dev.load_u64(n.add(N_LEAF), ctx) != 0
    }

    #[inline]
    fn count(&self, n: PAddr, ctx: &mut MemCtx) -> u64 {
        self.dev.load_u64(n.add(N_COUNT), ctx)
    }

    #[inline]
    fn entry(&self, n: PAddr, i: u64, ctx: &mut MemCtx) -> (u64, u64) {
        let ea = n.add(N_ENTRIES + i * 16);
        (
            self.dev.load_u64(ea, ctx),
            self.dev.load_u64(ea.add(8), ctx),
        )
    }

    #[inline]
    fn set_entry(&self, n: PAddr, i: u64, k: u64, v: u64, ctx: &mut MemCtx) {
        let ea = n.add(N_ENTRIES + i * 16);
        self.dev.store_u64(ea, k, ctx);
        self.dev.store_u64(ea.add(8), v, ctx);
    }

    /// Inner-node child lookup: largest `i` with `sep[i] <= key`
    /// (sep[0] is always 0).
    fn child_for(&self, inner: PAddr, key: u64, ctx: &mut MemCtx) -> (u64, PAddr) {
        let cnt = self.count(inner, ctx);
        debug_assert!(cnt > 0);
        let mut idx = 0;
        let mut child = 0;
        for i in 0..cnt {
            let (sep, c) = self.entry(inner, i, ctx);
            if sep <= key {
                idx = i;
                child = c;
            } else {
                break;
            }
        }
        (idx, PAddr(child))
    }

    /// Descend to the leaf for `key`, recording `(inner, child_idx)` on
    /// the path.
    fn descend(&self, key: u64, ctx: &mut MemCtx) -> (PAddr, Vec<(PAddr, u64)>) {
        let mut n = self.root(ctx);
        let mut path = Vec::with_capacity(4);
        while !self.is_leaf(n, ctx) {
            let (idx, child) = self.child_for(n, key, ctx);
            path.push((n, idx));
            n = child;
        }
        (n, path)
    }

    /// Find the *live* entry for `key` in (unsorted) leaf `n`. Slots
    /// with a zero value word are dead (removed or torn mid-publish).
    fn find_in_leaf(&self, n: PAddr, key: u64, ctx: &mut MemCtx) -> Option<u64> {
        let cnt = self.count(n, ctx);
        for i in 0..cnt {
            let (k, v) = self.entry(n, i, ctx);
            if v != 0 && k == key {
                return Some(i);
            }
        }
        None
    }

    /// Read a leaf's live entries into DRAM (dead slots skipped).
    fn live_entries(&self, n: PAddr, ctx: &mut MemCtx) -> Vec<(u64, u64)> {
        let cnt = self.count(n, ctx);
        (0..cnt)
            .map(|i| self.entry(n, i, ctx))
            .filter(|&(_, v)| v != 0)
            .collect()
    }

    /// Read an inner node's entries into DRAM (all slots are live).
    fn entries_vec(&self, n: PAddr, ctx: &mut MemCtx) -> Vec<(u64, u64)> {
        let cnt = self.count(n, ctx);
        (0..cnt).map(|i| self.entry(n, i, ctx)).collect()
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
    fn find_pred(&self, path: &[(PAddr, u64)], ctx: &mut MemCtx) -> Option<PAddr> {
        for &(inner, idx) in path.iter().rev() {
            if idx > 0 {
                let (_, c) = self.entry(inner, idx - 1, ctx);
                let mut n = PAddr(c);
                while !self.is_leaf(n, ctx) {
                    let cnt = self.count(n, ctx);
                    let (_, c) = self.entry(n, cnt - 1, ctx);
                    n = PAddr(c);
                }
                return Some(n);
            }
        }
        None
    }

    /// Copy-on-write split of the full leaf `left`, inserting
    /// `(key, val)` along the way. Builds and flushes replacement leaves
    /// `nl`/`nr` off-chain, publishes them with one atomic pointer
    /// swing, repoints the inner structure, and retires `left` — all
    /// inside the `splitting` flag window (see the module docs for the
    /// exact event ordering).
    fn split_insert(
        &self,
        left: PAddr,
        path: Vec<(PAddr, u64)>,
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
        let mut ents = self.live_entries(left, ctx);
        ents.sort_unstable_by_key(|e| e.0);
        let mid = ents.len() / 2;
        let median = ents[mid].0;
        let nl = self.nodes.alloc_node(ctx)?;
        let nr = self.nodes.alloc_node(ctx)?;
        self.t_log(nl, NODE, ctx);
        self.t_log(nr, NODE, ctx);
        self.init_node(nl, true, ctx);
        for (i, &(k, v)) in ents[..mid].iter().enumerate() {
            self.set_entry(nl, i as u64, k, v, ctx);
        }
        self.dev.store_u64(nl.add(N_COUNT), mid as u64, ctx);
        self.init_node(nr, true, ctx);
        for (i, &(k, v)) in ents[mid..].iter().enumerate() {
            self.set_entry(nr, i as u64, k, v, ctx);
        }
        self.dev
            .store_u64(nr.add(N_COUNT), (ents.len() - mid) as u64, ctx);
        let left_next = self.dev.load_u64(left.add(N_NEXT), ctx);
        self.dev.store_u64(nr.add(N_NEXT), left_next, ctx);
        self.dev.store_u64(nl.add(N_NEXT), nr.0, ctx);
        // The triggering key goes straight into its half — unpublished
        // nodes need no ordered append.
        let tgt = if key < median { nl } else { nr };
        let tcnt = self.count(tgt, ctx);
        self.set_entry(tgt, tcnt, key, val, ctx);
        self.dev.store_u64(tgt.add(N_COUNT), tcnt + 1, ctx);
        self.wbr(nl, NODE, ctx);
        self.wbr(nr, NODE, ctx);
        self.fence_if_adr(ctx);

        // 3. Publish: one atomic 8-byte swing onto the leaf chain.
        let swing = match self.find_pred(&path, ctx) {
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
        self.nodes.free_node(left, ctx);
        Ok(())
    }

    /// Split a full inner node (kept sorted), returning `(median,
    /// right)`. In-place: the flag window covers torn inner state.
    fn split_inner(&self, left: PAddr, ctx: &mut MemCtx) -> Result<(u64, PAddr), IndexError> {
        let ents = self.entries_vec(left, ctx);
        let mid = ents.len() / 2;
        let median = ents[mid].0;
        let right = self.nodes.alloc_node(ctx)?;
        self.t_log(right, NODE, ctx);
        self.init_node(right, false, ctx);
        for (i, &(k, v)) in ents[mid..].iter().enumerate() {
            self.set_entry(right, i as u64, k, v, ctx);
        }
        self.dev
            .store_u64(right.add(N_COUNT), (ents.len() - mid) as u64, ctx);
        self.dev.store_u64(left.add(N_COUNT), mid as u64, ctx);
        Ok((median, right))
    }

    /// Insert `(sep, child)` into the sorted inner node (not full).
    fn inner_insert_at(&self, inner: PAddr, sep: u64, child: PAddr, ctx: &mut MemCtx) {
        let cnt = self.count(inner, ctx);
        debug_assert!(cnt < CAP);
        // Shift entries greater than sep one slot right.
        let mut pos = cnt;
        while pos > 0 {
            let (k, v) = self.entry(inner, pos - 1, ctx);
            if k <= sep {
                break;
            }
            self.set_entry(inner, pos, k, v, ctx);
            pos -= 1;
        }
        self.set_entry(inner, pos, sep, child.0, ctx);
        self.dev.store_u64(inner.add(N_COUNT), cnt + 1, ctx);
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
        mut path: Vec<(PAddr, u64)>,
        ctx: &mut MemCtx,
    ) -> Result<(), IndexError> {
        if let Some(&(parent, idx)) = path.last() {
            // The parent's child pointer still names the retired leaf.
            self.t_log(parent, NODE, ctx);
            let va = parent.add(N_ENTRIES + idx * 16 + 8);
            self.dev.store_u64(va, new_child.0, ctx);
            self.wb(va, ctx);
        } else {
            // The split leaf was the root: grow with both fresh halves.
            let new_root = self.nodes.alloc_node(ctx)?;
            self.t_log(new_root, NODE, ctx);
            self.init_node(new_root, false, ctx);
            self.set_entry(new_root, 0, 0, new_child.0, ctx);
            self.set_entry(new_root, 1, sep, right.0, ctx);
            self.dev.store_u64(new_root.add(N_COUNT), 2, ctx);
            self.wbr(new_root, NODE, ctx);
            self.dev
                .store_u64(self.root_slot.add(R_ROOT), new_root.0, ctx);
            self.wb(self.root_slot.add(R_ROOT), ctx);
            return Ok(());
        }
        loop {
            match path.pop() {
                Some((inner, _)) => {
                    self.t_log(inner, NODE, ctx);
                    if self.count(inner, ctx) < CAP {
                        self.inner_insert_at(inner, sep, right, ctx);
                        self.wbr(inner, NODE, ctx);
                        return Ok(());
                    }
                    let (med, new_right) = self.split_inner(inner, ctx)?;
                    // Insert into the proper half.
                    if sep < med {
                        self.inner_insert_at(inner, sep, right, ctx);
                    } else {
                        self.inner_insert_at(new_right, sep, right, ctx);
                    }
                    self.wbr(inner, NODE, ctx);
                    self.wbr(new_right, NODE, ctx);
                    sep = med;
                    right = new_right;
                }
                None => {
                    // Split reached the root: grow the tree.
                    let old_root = self.root(ctx);
                    let new_root = self.nodes.alloc_node(ctx)?;
                    self.t_log(new_root, NODE, ctx);
                    self.init_node(new_root, false, ctx);
                    self.set_entry(new_root, 0, 0, old_root.0, ctx);
                    self.set_entry(new_root, 1, sep, right.0, ctx);
                    self.dev.store_u64(new_root.add(N_COUNT), 2, ctx);
                    self.wbr(new_root, NODE, ctx);
                    self.dev
                        .store_u64(self.root_slot.add(R_ROOT), new_root.0, ctx);
                    self.wb(self.root_slot.add(R_ROOT), ctx);
                    return Ok(());
                }
            }
        }
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
        let cap = self.dev.capacity();
        let max_steps = cap / NODE + 1;
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
            if !leaf.is_multiple_of(NODE) || leaf.checked_add(NODE).is_none_or(|end| end > cap) {
                return Err(IndexError::Corrupt(format!(
                    "btree leaf chain pointer {leaf:#x} out of bounds"
                )));
            }
            let n = PAddr(leaf);
            if !self.is_leaf(n, ctx) {
                return Err(IndexError::Corrupt(format!(
                    "btree leaf chain node {leaf:#x} is not tagged as a leaf"
                )));
            }
            if self.count(n, ctx) > CAP {
                return Err(IndexError::Corrupt(format!(
                    "btree leaf {leaf:#x} claims more than {CAP} entries"
                )));
            }
            let ents = self.live_entries(n, ctx);
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
            leaf = self.dev.load_u64(n.add(N_NEXT), ctx);
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
                self.init_node(inner, false, ctx);
                for (i, &(k, c)) in chunk.iter().enumerate() {
                    self.set_entry(inner, i as u64, k, c, ctx);
                }
                self.dev
                    .store_u64(inner.add(N_COUNT), chunk.len() as u64, ctx);
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
        while !self.is_leaf(n, ctx) {
            depth += 1;
            let (_, c) = self.entry(n, 0, ctx);
            n = PAddr(c);
        }
        (depth, self.count(root, ctx))
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
#[cfg(feature = "trace")]
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
        let (leaf, path) = self.descend(key, ctx);
        // One pass: duplicate check over live slots, first hole found.
        let cnt = self.count(leaf, ctx);
        let mut hole = None;
        for i in 0..cnt {
            let (k, v) = self.entry(leaf, i, ctx);
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
            let ea = leaf.add(N_ENTRIES + h * 16);
            self.dev.store_u64(ea, key, ctx);
            self.wb(ea, ctx);
            self.dev.store_u64(ea.add(8), val, ctx);
            self.wb(ea.add(8), ctx);
        } else if cnt < CAP {
            // Append (unsorted leaf): the entry is beyond the count word
            // until the count's own write-back, so a cut can only hide
            // it, never expose half of it.
            let ea = leaf.add(N_ENTRIES + cnt * 16);
            self.dev.store_u64(ea, key, ctx);
            self.wb(ea, ctx);
            self.dev.store_u64(ea.add(8), val, ctx);
            self.wb(ea.add(8), ctx);
            self.dev.store_u64(leaf.add(N_COUNT), cnt + 1, ctx);
            self.wb(leaf.add(N_COUNT), ctx);
        } else {
            // The split path moves the count itself, inside the flag
            // window — see `split_insert`.
            return self.split_insert(leaf, path, key, val, ctx);
        }
        self.dev.fetch_add_u64(self.root_slot.add(R_COUNT), 1, ctx);
        self.wb(self.root_slot.add(R_COUNT), ctx);
        Ok(())
    }

    fn get(&self, key: u64, ctx: &mut MemCtx) -> Option<u64> {
        let _g = self.tree_lock.read();
        let (leaf, _) = self.descend(key, ctx);
        self.find_in_leaf(leaf, key, ctx)
            .map(|i| self.entry(leaf, i, ctx).1)
    }

    fn update(&self, key: u64, val: u64, ctx: &mut MemCtx) -> bool {
        if val == 0 {
            return false;
        }
        let _g = self.tree_lock.write();
        let (leaf, _) = self.descend(key, ctx);
        match self.find_in_leaf(leaf, key, ctx) {
            Some(i) => {
                // A single atomic value-word store: old or new, never
                // torn across key and value.
                let va = leaf.add(N_ENTRIES + i * 16 + 8);
                self.dev.store_u64(va, val, ctx);
                self.wb(va, ctx);
                true
            }
            None => false,
        }
    }

    fn remove(&self, key: u64, ctx: &mut MemCtx) -> bool {
        let _g = self.tree_lock.write();
        let (leaf, _) = self.descend(key, ctx);
        match self.find_in_leaf(leaf, key, ctx) {
            Some(i) => {
                // One atomic dead-store of the value word; the slot
                // becomes a hole later inserts may reuse.
                let va = leaf.add(N_ENTRIES + i * 16 + 8);
                self.dev.store_u64(va, 0, ctx);
                self.wb(va, ctx);
                self.dev
                    .fetch_add_u64(self.root_slot.add(R_COUNT), u64::MAX, ctx);
                self.wb(self.root_slot.add(R_COUNT), ctx);
                true
            }
            None => false,
        }
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
        let mut steps = 0u64;
        let (mut leaf, _) = self.descend(lo, ctx);
        while leaf.0 != 0 {
            steps += 1;
            if steps > max_steps {
                // A cyclic leaf chain (corruption): error out instead of
                // scanning forever.
                return Err(IndexError::Corrupt(format!(
                    "btree leaf chain exceeds {max_steps} nodes during scan (cycle)"
                )));
            }
            let mut ents = self.live_entries(leaf, ctx);
            ents.sort_unstable_by_key(|e| e.0);
            for &(k, v) in &ents {
                if k > hi {
                    return Ok(());
                }
                if k >= lo && !f(k, v) {
                    return Ok(());
                }
            }
            // An empty leaf or one fully below hi: continue the chain.
            leaf = PAddr(self.dev.load_u64(leaf.add(N_NEXT), ctx));
        }
        Ok(())
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
        self.init_node(leaf, true, ctx);
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
}
