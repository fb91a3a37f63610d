//! The tuple heap.
//!
//! Tuples of a table live in fixed-size slots inside 2 MB pages. Pages
//! are dedicated to the thread that allocated them (§5.1: "pages are
//! dedicated to each thread", NUMA-aware allocation degenerating to
//! per-thread pools here). Each thread bump-allocates slots inside its
//! current page and keeps a *persistent* delete list threaded through the
//! data areas of deleted slots (§5.4): allocation first tries to reclaim
//! the oldest deleted slot if its delete TID is older than every active
//! transaction.
//!
//! Page chains and delete lists are anchored in the [`Catalog`], so the
//! heap is fully reconstructible after a crash — including the delete
//! lists, which the paper keeps in NVM precisely so they survive.

use parking_lot::Mutex;
use pmem_sim::{MemCtx, PAddr, PmemDevice};

use crate::alloc::NvmAllocator;
use crate::catalog::{Catalog, TableId};
use crate::error::StorageError;
use crate::layout::{PAGE_ARENA, PAGE_SIZE};
use crate::schema::Schema;
use crate::tuple::{slot_size, TupleRef};
use crate::MAX_THREADS;

/// Magic word identifying a heap page.
const PAGE_MAGIC: u64 = 0x9EAF_7AB1_E000_0001;

/// Size of the page header.
const PAGE_HDR: u64 = 64;

// Page header word offsets.
const PH_MAGIC: u64 = 0;
const PH_TABLE: u64 = 8;
const PH_THREAD: u64 = 16;
const PH_USED: u64 = 24;
const PH_NEXT: u64 = 32;
const PH_SLOT_SIZE: u64 = 40;

#[derive(Debug, Default, Clone, Copy)]
struct ThreadState {
    /// Current allocation page (0 = none yet).
    cur_page: u64,
    /// Slots used in the current page (mirrors the persistent header).
    used: u64,
}

/// A table's tuple heap.
pub struct TupleHeap {
    dev: PmemDevice,
    alloc: NvmAllocator,
    catalog: Catalog,
    table: TableId,
    tuple_size: u32,
    slot_size: u64,
    slots_per_page: u64,
    threads: Vec<Mutex<ThreadState>>,
}

impl TupleHeap {
    /// Open (or implicitly create) the heap of `table`, reconstructing
    /// per-thread allocation state from the catalog and page headers.
    pub fn open(
        alloc: NvmAllocator,
        catalog: Catalog,
        table: TableId,
        schema: &Schema,
        ctx: &mut MemCtx,
    ) -> Result<TupleHeap, StorageError> {
        let dev = alloc.device().clone();
        let tuple_size = schema.tuple_size();
        let slot = slot_size(tuple_size);
        if slot == 0 || slot > PAGE_SIZE - PAGE_HDR {
            return Err(StorageError::BadSlotSize { size: slot });
        }
        let slots_per_page = (PAGE_SIZE - PAGE_HDR) / slot;
        let mut threads = Vec::with_capacity(MAX_THREADS);
        for t in 0..MAX_THREADS {
            let tail = catalog.heap_tail(table, t, ctx);
            let used = if tail != 0 {
                dev.load_u64(PAddr(tail + PH_USED), ctx)
            } else {
                0
            };
            threads.push(Mutex::new(ThreadState {
                cur_page: tail,
                used,
            }));
        }
        Ok(TupleHeap {
            dev,
            alloc,
            catalog,
            table,
            tuple_size,
            slot_size: slot,
            slots_per_page,
            threads,
        })
    }

    /// The table this heap belongs to.
    pub fn table(&self) -> TableId {
        self.table
    }

    /// Tuple data size in bytes.
    pub fn tuple_size(&self) -> u32 {
        self.tuple_size
    }

    /// Slot size (header + data, line-aligned) in bytes.
    pub fn slot_size(&self) -> u64 {
        self.slot_size
    }

    /// Slots per 2 MB page.
    pub fn slots_per_page(&self) -> u64 {
        self.slots_per_page
    }

    /// Allocate a slot for `thread`.
    ///
    /// First tries to reclaim the head of the thread's delete list if its
    /// delete TID is `< reclaim_before` (pass the minimum TID of all
    /// active transactions, or 0 to disable reclamation); otherwise
    /// bump-allocates, taking a fresh page when the current one fills.
    pub fn alloc_slot(
        &self,
        thread: usize,
        reclaim_before: u64,
        ctx: &mut MemCtx,
    ) -> Result<TupleRef, StorageError> {
        if thread >= MAX_THREADS {
            return Err(StorageError::ThreadLimit(thread));
        }
        let mut st = self.threads[thread].lock();

        // 1. Try the delete list (oldest-first: the list is append-only
        //    at the tail, so the head has the smallest delete TID).
        let head = self.catalog.delete_head(self.table, thread, ctx);
        if head != 0 {
            let slot = self.check_slot(head)?;
            if slot.deleted_tid(&self.dev, ctx) < reclaim_before {
                let next = slot.deleted_next(&self.dev, ctx);
                self.catalog.set_delete_head(self.table, thread, next, ctx);
                if next == 0 {
                    self.catalog.set_delete_tail(self.table, thread, 0, ctx);
                }
                self.dev.store_u64(slot.flags_addr(), 0, ctx);
                self.dev.clwb_if_adr(slot.flags_addr(), ctx);
                return Ok(slot);
            }
        }

        // 2. Bump allocation.
        if st.cur_page == 0 || st.used == self.slots_per_page {
            let page = self.alloc.alloc_page(ctx)?;
            self.init_page(page, thread, ctx);
            if st.cur_page != 0 {
                self.dev
                    .store_u64(PAddr(st.cur_page + PH_NEXT), page.0, ctx);
                self.dev.clwb_if_adr(PAddr(st.cur_page + PH_NEXT), ctx);
            } else {
                self.catalog.set_heap_head(self.table, thread, page.0, ctx);
            }
            self.catalog.set_heap_tail(self.table, thread, page.0, ctx);
            st.cur_page = page.0;
            st.used = 0;
        }
        let addr = st.cur_page + PAGE_HDR + st.used * self.slot_size;
        st.used += 1;
        self.dev
            .store_u64(PAddr(st.cur_page + PH_USED), st.used, ctx);
        // The bump cursor must be durable before the slot holds committed
        // data: an ADR crash that rolled `used` back would let the next
        // run hand the same slot out again under a live index entry.
        self.dev.clwb_if_adr(PAddr(st.cur_page + PH_USED), ctx);
        Ok(TupleRef::new(PAddr(addr)))
    }

    fn init_page(&self, page: PAddr, thread: usize, ctx: &mut MemCtx) {
        self.dev.store_u64(page.add(PH_MAGIC), PAGE_MAGIC, ctx);
        self.dev
            .store_u64(page.add(PH_TABLE), u64::from(self.table), ctx);
        self.dev.store_u64(page.add(PH_THREAD), thread as u64, ctx);
        self.dev.store_u64(page.add(PH_USED), 0, ctx);
        self.dev.store_u64(page.add(PH_NEXT), 0, ctx);
        self.dev
            .store_u64(page.add(PH_SLOT_SIZE), self.slot_size, ctx);
        self.dev.clwb_if_adr(page, ctx);
    }

    /// Put `slot` on `thread`'s delete list, recording the deleting
    /// transaction's TID. The delete flag is *claimed atomically*: if the
    /// slot is already flagged (already on some list), the call is a
    /// no-op returning `false` — a double free would otherwise link the
    /// slot into two lists and corrupt both.
    pub fn free_slot(
        &self,
        thread: usize,
        slot: TupleRef,
        delete_tid: u64,
        ctx: &mut MemCtx,
    ) -> bool {
        debug_assert!(thread < MAX_THREADS);
        let _st = self.threads[thread].lock();
        // Claim first (atomic across threads), then thread the free-list
        // record through the data area.
        let prev = self
            .dev
            .fetch_or_u64(slot.flags_addr(), crate::tuple::FLAG_DELETED, ctx);
        if prev & crate::tuple::FLAG_DELETED != 0 {
            // Already on a list (e.g. idempotent recovery replay).
            return false;
        }
        self.dev.clwb_if_adr(slot.flags_addr(), ctx);
        slot.set_deleted_next(&self.dev, 0, ctx);
        slot.set_deleted_tid(&self.dev, delete_tid, ctx);
        let tail = self.catalog.delete_tail(self.table, thread, ctx);
        if tail == 0 {
            self.catalog
                .set_delete_head(self.table, thread, slot.addr.0, ctx);
        } else {
            TupleRef::new(PAddr(tail)).set_deleted_next(&self.dev, slot.addr.0, ctx);
        }
        self.catalog
            .set_delete_tail(self.table, thread, slot.addr.0, ctx);
        true
    }

    /// Visit every allocated slot of the heap (including deleted ones:
    /// the callback can check the delete flag). This is the full-heap
    /// scan that out-of-place engines pay during recovery.
    ///
    /// The walk trusts no persistent word: before a page's slots are
    /// visited, the page address must be a page-aligned arena page
    /// inside the device, seen nowhere else in the heap, and carry the
    /// heap magic, and its used count must fit the page. A failed check
    /// ends the walk with [`StorageError::CorruptHeap`]. The checks are
    /// host-side arithmetic plus one uncharged peek, so an intact
    /// heap's walk costs the same device accesses as an unchecked one.
    pub fn scan(
        &self,
        ctx: &mut MemCtx,
        mut f: impl FnMut(TupleRef, &mut MemCtx),
    ) -> Result<(), StorageError> {
        let mut seen = std::collections::HashSet::new();
        for t in 0..MAX_THREADS {
            let mut page = self.catalog.heap_head(self.table, t, ctx);
            while page != 0 {
                self.check_page(page, &mut seen)?;
                let used = self.dev.load_u64(PAddr(page + PH_USED), ctx);
                if used > self.slots_per_page {
                    return Err(self.corrupt(page, "used count above the page's slots"));
                }
                for s in 0..used {
                    let addr = page + PAGE_HDR + s * self.slot_size;
                    f(TupleRef::new(PAddr(addr)), ctx);
                }
                page = self.dev.load_u64(PAddr(page + PH_NEXT), ctx);
            }
        }
        Ok(())
    }

    /// Structural checks on one page address of a chain walk (no
    /// charged device access).
    fn check_page(
        &self,
        page: u64,
        seen: &mut std::collections::HashSet<u64>,
    ) -> Result<(), StorageError> {
        if page < PAGE_ARENA
            || page
                .checked_add(PAGE_SIZE)
                .is_none_or(|end| end > self.dev.capacity())
        {
            return Err(self.corrupt(page, "page pointer out of range"));
        }
        if !(page - PAGE_ARENA).is_multiple_of(PAGE_SIZE) {
            return Err(self.corrupt(page, "page pointer not page-aligned"));
        }
        if !seen.insert(page) {
            return Err(self.corrupt(page, "page chain revisits a page"));
        }
        // Uncharged peek: the check stays off the virtual clock.
        let mut magic = [0u8; 8];
        self.dev.raw_read(PAddr(page + PH_MAGIC), &mut magic);
        if u64::from_le_bytes(magic) != PAGE_MAGIC {
            return Err(self.corrupt(page, "page lacks the heap magic"));
        }
        Ok(())
    }

    /// Structural checks on one delete-list pointer before it is
    /// followed, by arithmetic alone (no device access): it must name a
    /// slot of this heap's geometry inside the page arena — past a page
    /// header, on a slot boundary, below `slots_per_page`.
    fn check_slot(&self, addr: u64) -> Result<TupleRef, StorageError> {
        let cap = self.dev.capacity();
        let out_of_range = || self.corrupt(addr, "delete-list pointer out of range");
        if addr < PAGE_ARENA || addr >= cap {
            return Err(out_of_range());
        }
        let page = addr - (addr - PAGE_ARENA) % PAGE_SIZE;
        if page + PAGE_SIZE > cap {
            return Err(out_of_range());
        }
        let Some(off) = (addr - page).checked_sub(PAGE_HDR) else {
            return Err(self.corrupt(addr, "delete-list pointer inside a page header"));
        };
        if !off.is_multiple_of(self.slot_size) {
            return Err(self.corrupt(addr, "delete-list pointer not on a slot boundary"));
        }
        if off / self.slot_size >= self.slots_per_page {
            return Err(self.corrupt(addr, "delete-list pointer past the page's slots"));
        }
        Ok(TupleRef::new(PAddr(addr)))
    }

    fn corrupt(&self, page: u64, what: &'static str) -> StorageError {
        StorageError::CorruptHeap {
            table: self.table,
            page,
            what,
        }
    }

    /// Number of allocated slots (including deleted ones still on delete
    /// lists). Diagnostic / test helper.
    pub fn allocated_slots(&self, ctx: &mut MemCtx) -> Result<u64, StorageError> {
        let mut n = 0;
        self.scan(ctx, |_, _| n += 1)?;
        Ok(n)
    }

    /// Length of `thread`'s delete list (diagnostic; walks the list).
    /// Every link is checked before it is followed, and a walk longer
    /// than the device has slots (a cycle) stops, both with
    /// [`StorageError::CorruptHeap`].
    pub fn delete_list_len(&self, thread: usize, ctx: &mut MemCtx) -> Result<u64, StorageError> {
        let pages = self.dev.capacity().saturating_sub(PAGE_ARENA) / PAGE_SIZE;
        let max_slots = pages * self.slots_per_page;
        let mut n = 0;
        let mut cur = self.catalog.delete_head(self.table, thread, ctx);
        while cur != 0 {
            if n == max_slots {
                return Err(self.corrupt(cur, "delete list longer than the heap's slots"));
            }
            n += 1;
            cur = self.check_slot(cur)?.deleted_next(&self.dev, ctx);
        }
        Ok(n)
    }

    /// The underlying device.
    pub fn device(&self) -> &PmemDevice {
        &self.dev
    }
}

impl core::fmt::Debug for TupleHeap {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("TupleHeap")
            .field("table", &self.table)
            .field("slot_size", &self.slot_size)
            .finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::layout::format;
    use crate::schema::ColType;
    use pmem_sim::SimConfig;

    fn setup(tuple_bytes: u32) -> (PmemDevice, TupleHeap, MemCtx) {
        let dev = PmemDevice::new(SimConfig::small().with_capacity(64 << 20)).unwrap();
        format(&dev).unwrap();
        let mut ctx = MemCtx::new(0);
        let cat = Catalog::open(dev.clone(), &mut ctx).unwrap();
        let schema = Schema::new(
            "t",
            &[("k", ColType::U64), ("v", ColType::Bytes(tuple_bytes - 8))],
        );
        let table = cat.create_table(&schema, &mut ctx).unwrap();
        let alloc = NvmAllocator::new(dev.clone());
        let heap = TupleHeap::open(alloc, cat, table, &schema, &mut ctx).unwrap();
        (dev, heap, ctx)
    }

    #[test]
    fn slots_are_distinct_and_within_pages() {
        let (_, heap, mut ctx) = setup(40);
        let mut seen = std::collections::HashSet::new();
        for _ in 0..100 {
            let s = heap.alloc_slot(0, 0, &mut ctx).unwrap();
            assert!(seen.insert(s.addr.0), "slot reused");
            assert_eq!((s.addr.0 - PAGE_HDR) % heap.slot_size(), 0);
        }
        assert_eq!(heap.allocated_slots(&mut ctx).unwrap(), 100);
    }

    #[test]
    fn page_rollover() {
        let (_, heap, mut ctx) = setup(40);
        let per_page = heap.slots_per_page();
        let n = per_page + 3;
        let mut pages = std::collections::HashSet::new();
        for _ in 0..n {
            let s = heap.alloc_slot(0, 0, &mut ctx).unwrap();
            pages.insert(s.addr.0 / PAGE_SIZE);
        }
        assert_eq!(pages.len(), 2, "allocation crossed into a second page");
        assert_eq!(heap.allocated_slots(&mut ctx).unwrap(), n);
    }

    #[test]
    fn per_thread_pages_are_disjoint() {
        let (_, heap, mut ctx) = setup(40);
        let a = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        let b = heap.alloc_slot(1, 0, &mut ctx).unwrap();
        assert_ne!(a.addr.0 / PAGE_SIZE, b.addr.0 / PAGE_SIZE);
    }

    #[test]
    fn delete_list_reclaims_oldest_first() {
        let (dev, heap, mut ctx) = setup(40);
        let a = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        let b = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        heap.free_slot(0, a, 10, &mut ctx);
        heap.free_slot(0, b, 20, &mut ctx);
        assert_eq!(heap.delete_list_len(0, &mut ctx).unwrap(), 2);

        // Reclaim bound 15: only `a` (tid 10) is reclaimable.
        let r = heap.alloc_slot(0, 15, &mut ctx).unwrap();
        assert_eq!(r.addr, a.addr);
        assert!(!r.is_deleted(&dev, &mut ctx), "reclaimed slot undeleted");
        assert_eq!(heap.delete_list_len(0, &mut ctx).unwrap(), 1);

        // Bound 15 again: `b` (tid 20) is too young — bump-allocate.
        let r2 = heap.alloc_slot(0, 15, &mut ctx).unwrap();
        assert_ne!(r2.addr, b.addr);

        // Bound 100 reclaims `b`.
        let r3 = heap.alloc_slot(0, 100, &mut ctx).unwrap();
        assert_eq!(r3.addr, b.addr);
        assert_eq!(heap.delete_list_len(0, &mut ctx).unwrap(), 0);
    }

    #[test]
    fn zero_bound_never_reclaims() {
        let (_, heap, mut ctx) = setup(40);
        let a = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        heap.free_slot(0, a, 5, &mut ctx);
        let b = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        assert_ne!(a.addr, b.addr);
    }

    #[test]
    fn state_survives_crash() {
        let (dev, heap, mut ctx) = setup(40);
        let mut addrs = Vec::new();
        for _ in 0..10 {
            addrs.push(heap.alloc_slot(0, 0, &mut ctx).unwrap());
        }
        heap.free_slot(0, addrs[3], 7, &mut ctx);

        dev.crash();

        let cat = Catalog::open(dev.clone(), &mut ctx).unwrap();
        let schema = cat.schema(0, &mut ctx).unwrap();
        let alloc = NvmAllocator::new(dev.clone());
        let heap2 = TupleHeap::open(alloc, cat, 0, &schema, &mut ctx).unwrap();
        assert_eq!(heap2.allocated_slots(&mut ctx).unwrap(), 10);
        assert_eq!(
            heap2.delete_list_len(0, &mut ctx).unwrap(),
            1,
            "delete list persisted"
        );

        // Continue allocating: no overlap with pre-crash slots except via
        // the delete list.
        let next = heap2.alloc_slot(0, 0, &mut ctx).unwrap();
        assert!(addrs.iter().all(|a| a.addr != next.addr));
        let reclaimed = heap2.alloc_slot(0, u64::MAX, &mut ctx).unwrap();
        assert_eq!(reclaimed.addr, addrs[3].addr);
    }

    #[test]
    fn scan_visits_all_threads() {
        let (_, heap, mut ctx) = setup(40);
        for t in 0..4 {
            for _ in 0..5 {
                heap.alloc_slot(t, 0, &mut ctx).unwrap();
            }
        }
        let mut n = 0;
        heap.scan(&mut ctx, |_, _| n += 1).unwrap();
        assert_eq!(n, 20);
    }

    /// A heap of two pages (thread 0) whose first page's header word at
    /// `off` is then overwritten with `value`; returns the scan result.
    fn scan_forged(off: u64, value: impl FnOnce(u64, &TupleHeap) -> u64) -> StorageError {
        let (dev, heap, mut ctx) = setup(40);
        for _ in 0..heap.slots_per_page() + 3 {
            heap.alloc_slot(0, 0, &mut ctx).unwrap();
        }
        let page = heap.catalog.heap_head(heap.table, 0, &mut ctx);
        let v = value(page, &heap);
        dev.store_u64(PAddr(page + off), v, &mut ctx);
        let mut visited = 0u64;
        let err = heap.scan(&mut ctx, |_, _| visited += 1).unwrap_err();
        assert!(
            visited <= 2 * heap.slots_per_page(),
            "walk stopped: {visited}"
        );
        err
    }

    fn what(e: &StorageError) -> &'static str {
        match e {
            StorageError::CorruptHeap { what, .. } => what,
            other => panic!("expected CorruptHeap, got {other:?}"),
        }
    }

    #[test]
    fn forged_next_out_of_range_is_typed() {
        let e = scan_forged(PH_NEXT, |_, _| 1 << 40);
        assert_eq!(what(&e), "page pointer out of range");
        assert!(e.to_string().contains("0x10000000000"), "{e}");
    }

    #[test]
    fn forged_next_into_the_catalog_is_typed() {
        let e = scan_forged(PH_NEXT, |_, _| 4096);
        assert_eq!(what(&e), "page pointer out of range");
    }

    #[test]
    fn forged_next_misaligned_is_typed() {
        let e = scan_forged(PH_NEXT, |page, _| page + PAGE_SIZE + 64);
        assert_eq!(what(&e), "page pointer not page-aligned");
    }

    #[test]
    fn forged_next_cycle_is_typed() {
        let e = scan_forged(PH_NEXT, |page, _| page);
        assert_eq!(what(&e), "page chain revisits a page");
    }

    #[test]
    fn forged_next_to_a_non_heap_page_is_typed() {
        // An in-range, aligned page that was never a heap page.
        let e = scan_forged(PH_NEXT, |_, h| {
            crate::layout::page_addr(h.alloc.pages_total() - 1).0
        });
        assert_eq!(what(&e), "page lacks the heap magic");
    }

    #[test]
    fn forged_used_count_is_typed() {
        let e = scan_forged(PH_USED, |_, h| h.slots_per_page() + 1);
        assert_eq!(what(&e), "used count above the page's slots");
        let e = scan_forged(PH_USED, |_, _| u64::MAX);
        assert_eq!(what(&e), "used count above the page's slots");
    }

    #[test]
    fn forged_magic_is_typed() {
        let e = scan_forged(PH_MAGIC, |_, _| 0);
        assert_eq!(what(&e), "page lacks the heap magic");
    }

    /// A heap with two slots on thread 0's delete list whose head (or,
    /// with `link`, the first slot's `deleted_next`) is then forged to
    /// `value(first_slot, heap)`.
    fn forge_delete_list(link: bool, value: impl FnOnce(u64, &TupleHeap) -> u64) -> TupleHeap {
        let (dev, heap, mut ctx) = setup(40);
        let a = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        let b = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        heap.free_slot(0, a, 10, &mut ctx);
        heap.free_slot(0, b, 20, &mut ctx);
        let v = value(a.addr.0, &heap);
        if link {
            a.set_deleted_next(&dev, v, &mut ctx);
        } else {
            heap.catalog.set_delete_head(heap.table, 0, v, &mut ctx);
        }
        heap
    }

    /// The forged head fails both the allocation that would follow it
    /// and the length walk, with the same typed error and without a
    /// charged device access beyond the catalog reads.
    fn forged_head(value: impl FnOnce(u64, &TupleHeap) -> u64) -> &'static str {
        let heap = forge_delete_list(false, value);
        let mut ctx = MemCtx::new(0);
        let len = heap.delete_list_len(0, &mut ctx).unwrap_err();
        let before = ctx.clock;
        let alloc = heap.alloc_slot(0, u64::MAX, &mut ctx).unwrap_err();
        let mut probe = MemCtx::new(0);
        heap.catalog.delete_head(heap.table, 0, &mut probe);
        assert_eq!(
            ctx.clock - before,
            probe.clock,
            "only the head read is charged"
        );
        assert_eq!(len, alloc);
        what(&alloc)
    }

    #[test]
    fn forged_delete_head_out_of_range_is_typed() {
        assert_eq!(
            forged_head(|_, _| 1 << 40),
            "delete-list pointer out of range"
        );
        assert_eq!(forged_head(|_, _| 4096), "delete-list pointer out of range");
        assert_eq!(
            forged_head(|_, _| u64::MAX),
            "delete-list pointer out of range"
        );
    }

    #[test]
    fn forged_delete_head_misaligned_is_typed() {
        assert_eq!(
            forged_head(|a, _| a + 8),
            "delete-list pointer not on a slot boundary"
        );
    }

    #[test]
    fn forged_delete_head_in_a_page_header_is_typed() {
        assert_eq!(
            forged_head(|a, _| a - PAGE_HDR),
            "delete-list pointer inside a page header"
        );
    }

    #[test]
    fn forged_delete_head_past_the_slots_is_typed() {
        assert_eq!(
            forged_head(|a, h| a + h.slots_per_page() * h.slot_size()),
            "delete-list pointer past the page's slots"
        );
    }

    #[test]
    fn forged_delete_link_is_typed() {
        let heap = forge_delete_list(true, |_, _| 1 << 40);
        let mut ctx = MemCtx::new(0);
        let e = heap.delete_list_len(0, &mut ctx).unwrap_err();
        assert_eq!(what(&e), "delete-list pointer out of range");
        // Reclaiming the intact head installs the forged link as the new
        // head; the next reclaim refuses it.
        heap.alloc_slot(0, u64::MAX, &mut ctx).unwrap();
        let e = heap.alloc_slot(0, u64::MAX, &mut ctx).unwrap_err();
        assert_eq!(what(&e), "delete-list pointer out of range");
    }

    #[test]
    fn delete_list_cycle_stops() {
        let heap = forge_delete_list(true, |a, _| a);
        let mut ctx = MemCtx::new(0);
        let e = heap.delete_list_len(0, &mut ctx).unwrap_err();
        assert_eq!(what(&e), "delete list longer than the heap's slots");
    }

    #[test]
    fn large_tuples() {
        let (_, heap, mut ctx) = setup(4096);
        assert!(heap.slots_per_page() > 0);
        let a = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        let b = heap.alloc_slot(0, 0, &mut ctx).unwrap();
        assert!(b.addr.0 - a.addr.0 >= 4096 + 24);
    }

    #[test]
    fn thread_limit() {
        let (_, heap, mut ctx) = setup(40);
        assert!(matches!(
            heap.alloc_slot(MAX_THREADS, 0, &mut ctx),
            Err(StorageError::ThreadLimit(_))
        ));
    }
}
