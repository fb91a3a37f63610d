//! The fixed on-NVM map.
//!
//! ```text
//! 0x000000 ┌───────────────────────────────┐
//!          │ superblock (4 KB)             │ magic, table count, page
//!          │                               │ counter, epoch, ts hint
//! 0x001000 ├───────────────────────────────┤
//!          │ catalog globals (4 KB)        │ per-thread log-window addrs,
//!          │                               │ index-root slots
//! 0x002000 ├───────────────────────────────┤
//!          │ table entries (16 × 8 KB)     │ schema blob + per-thread
//!          │                               │ page / delete-list heads
//! 0x200000 ├───────────────────────────────┤
//!          │ page arena (2 MB pages)       │ tuple heaps, indexes,
//!          │ ...                           │ log windows
//!          └───────────────────────────────┘
//! ```

use pmem_sim::{MemCtx, PAddr, PmemDevice};

use crate::error::StorageError;
use crate::{MAX_TABLES, MAX_THREADS};

/// Size of an allocation page (2 MB, as in the paper and Zen).
pub const PAGE_SIZE: u64 = 2 << 20;

/// Magic number identifying a formatted device.
pub const MAGIC: u64 = 0xFA1C_0505_0CDB_2023;

/// On-disk format version.
pub const VERSION: u64 = 1;

// --- Superblock word offsets (all 8-byte words) -------------------------

/// Byte offset of the magic word.
pub const SB_MAGIC: u64 = 0;
/// Byte offset of the format version word.
pub const SB_VERSION: u64 = 8;
/// Byte offset of the table-count word.
pub const SB_NUM_TABLES: u64 = 16;
/// Byte offset of the next-free-page counter.
pub const SB_NEXT_PAGE: u64 = 24;
/// Byte offset of the crash-epoch counter (incremented at each recovery;
/// DRAM-pointer words embed the epoch so stale pointers are ignored).
pub const SB_EPOCH: u64 = 32;
/// Byte offset of the persistent timestamp hint (monotonic TID floor
/// across recovery, §5.2.1 footnote 2).
pub const SB_TS_HINT: u64 = 40;

// --- Catalog globals -----------------------------------------------------

/// Base of the catalog globals area.
pub const CATALOG_GLOBALS: u64 = 4096;
/// Per-thread small-log-window addresses: `[u64; MAX_THREADS]`.
pub const LOG_WINDOW_ADDRS: u64 = CATALOG_GLOBALS;
/// Number of index-root slots (2 per table for 16 tables, plus
/// engine-private slots at the top for commit watermarks etc.).
pub const INDEX_SLOTS: usize = 40;
/// Size of one index-root slot in bytes (roots may need more than one
/// word of persistent metadata).
pub const INDEX_SLOT_SIZE: u64 = 64;
/// Base of the index-root slot array.
pub const INDEX_SLOT_BASE: u64 = LOG_WINDOW_ADDRS + (MAX_THREADS as u64) * 8;

// --- Table entries -------------------------------------------------------

/// Base of the table-entry array.
pub const TABLE_ENTRIES: u64 = 8192;
/// Size of one table entry.
pub const TABLE_ENTRY_SIZE: u64 = 8192;
/// Size of the schema blob area inside a table entry.
pub const SCHEMA_AREA: u64 = 4096;
/// Offset (inside a table entry) of the per-thread first-page addresses.
pub const TE_HEADS: u64 = 4096;
/// Offset of the per-thread last-page addresses.
pub const TE_TAILS: u64 = TE_HEADS + (MAX_THREADS as u64) * 8;
/// Offset of the per-thread delete-list heads.
pub const TE_DEL_HEADS: u64 = TE_TAILS + (MAX_THREADS as u64) * 8;
/// Offset of the per-thread delete-list tails.
pub const TE_DEL_TAILS: u64 = TE_DEL_HEADS + (MAX_THREADS as u64) * 8;

/// Base of the page arena.
pub const PAGE_ARENA: u64 = 2 << 20;

/// Minimum device capacity for this layout (arena of at least one page).
pub const MIN_CAPACITY: u64 = PAGE_ARENA + PAGE_SIZE;

/// Address of table entry `t`.
#[inline]
pub fn table_entry(t: u32) -> PAddr {
    debug_assert!((t as usize) < MAX_TABLES);
    PAddr(TABLE_ENTRIES + u64::from(t) * TABLE_ENTRY_SIZE)
}

/// Address of index-root slot `s`.
#[inline]
pub fn index_slot(s: usize) -> PAddr {
    debug_assert!(s < INDEX_SLOTS);
    PAddr(INDEX_SLOT_BASE + s as u64 * INDEX_SLOT_SIZE)
}

/// Address of the page with arena index `i`.
#[inline]
pub fn page_addr(i: u64) -> PAddr {
    PAddr(PAGE_ARENA + i * PAGE_SIZE)
}

/// Format a fresh device: write the superblock. All other areas rely on
/// the device being zero-initialized.
pub fn format(dev: &PmemDevice) -> Result<(), StorageError> {
    if dev.capacity() < MIN_CAPACITY {
        return Err(StorageError::DeviceTooSmall {
            need: MIN_CAPACITY,
            have: dev.capacity(),
        });
    }
    // Formatting is setup, not measurement: bypass the cost model.
    let mut w = [0u8; 48];
    w[0..8].copy_from_slice(&MAGIC.to_le_bytes());
    w[8..16].copy_from_slice(&VERSION.to_le_bytes());
    // num_tables = 0, next_page = 0, epoch = 0, ts_hint = 0.
    dev.raw_write(PAddr(SB_MAGIC), &w);
    Ok(())
}

/// Verify the superblock of an existing device: the magic word, then
/// the format version. Both sit in superblock line 0 and are taken with
/// one read.
pub fn check(dev: &PmemDevice, ctx: &mut MemCtx) -> Result<(), StorageError> {
    const _: () = assert!(SB_VERSION == SB_MAGIC + 8);
    let mut words = [0u8; 16];
    dev.read(PAddr(SB_MAGIC), &mut words, ctx);
    let (magic, version) = words.split_at(8);
    let found = u64::from_le_bytes(magic.try_into().expect("8 bytes"));
    if found != MAGIC {
        return Err(StorageError::BadMagic { found });
    }
    let found = u64::from_le_bytes(version.try_into().expect("8 bytes"));
    if found != VERSION {
        return Err(StorageError::BadVersion { found });
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;
    use pmem_sim::SimConfig;

    #[test]
    fn layout_does_not_overlap() {
        assert!(INDEX_SLOT_BASE + (INDEX_SLOTS as u64) * INDEX_SLOT_SIZE <= TABLE_ENTRIES);
        assert!(TE_DEL_TAILS + (MAX_THREADS as u64) * 8 <= TABLE_ENTRY_SIZE);
        assert!(TABLE_ENTRIES + (MAX_TABLES as u64) * TABLE_ENTRY_SIZE <= PAGE_ARENA);
        assert_eq!(PAGE_ARENA % PAGE_SIZE, 0);
    }

    #[test]
    fn format_and_check() {
        let dev = pmem_sim::PmemDevice::new(SimConfig::small()).unwrap();
        let mut ctx = MemCtx::new(0);
        assert!(check(&dev, &mut ctx).is_err(), "unformatted device");
        format(&dev).unwrap();
        check(&dev, &mut ctx).unwrap();
        assert_eq!(dev.load_u64(PAddr(SB_VERSION), &mut ctx), VERSION);
    }

    #[test]
    fn check_rejects_an_unknown_version() {
        let dev = pmem_sim::PmemDevice::new(SimConfig::small()).unwrap();
        let mut ctx = MemCtx::new(0);
        format(&dev).unwrap();
        dev.store_u64(PAddr(SB_VERSION), VERSION + 1, &mut ctx);
        assert_eq!(
            check(&dev, &mut ctx),
            Err(StorageError::BadVersion { found: VERSION + 1 })
        );
    }

    #[test]
    fn check_costs_what_the_magic_load_cost() {
        let formatted = || {
            let dev = pmem_sim::PmemDevice::new(SimConfig::small()).unwrap();
            format(&dev).unwrap();
            dev
        };
        let mut ctx = MemCtx::new(0);
        check(&formatted(), &mut ctx).unwrap();
        let mut magic_only = MemCtx::new(0);
        formatted().load_u64(PAddr(SB_MAGIC), &mut magic_only);
        assert_eq!(ctx.stats.accesses, 1);
        assert_eq!(ctx.clock, magic_only.clock);
    }

    #[test]
    fn format_rejects_tiny_device() {
        let dev = pmem_sim::PmemDevice::new(SimConfig::small().with_capacity(1 << 20)).unwrap();
        assert!(matches!(
            format(&dev),
            Err(StorageError::DeviceTooSmall { .. })
        ));
    }

    #[test]
    fn addr_helpers() {
        assert_eq!(table_entry(0).0, TABLE_ENTRIES);
        assert_eq!(table_entry(1).0, TABLE_ENTRIES + TABLE_ENTRY_SIZE);
        assert_eq!(page_addr(0).0, PAGE_ARENA);
        assert_eq!(page_addr(2).0, PAGE_ARENA + 2 * PAGE_SIZE);
        assert_eq!(index_slot(1).0, INDEX_SLOT_BASE + 64);
    }
}
