//! The persistent catalog.
//!
//! The catalog is the first thing recovery reads (§5.1): it records table
//! schemas, the per-thread page lists and delete lists of every tuple
//! heap, the addresses of the per-thread small log windows, index roots,
//! the crash epoch, and the timestamp hint that keeps TIDs monotonic
//! across recovery.
//!
//! All state lives at fixed addresses (see [`crate::layout`]); the
//! `Catalog` struct is a stateless, cheaply-cloneable view over the
//! device.

use pmem_sim::{MemCtx, PAddr, PmemDevice};

use crate::error::StorageError;
use crate::layout::{
    self, index_slot, table_entry, INDEX_SLOTS, LOG_WINDOW_ADDRS, SB_EPOCH, SB_NUM_TABLES,
    SB_TS_HINT, SCHEMA_AREA, TE_DEL_HEADS, TE_DEL_TAILS, TE_HEADS, TE_TAILS,
};
use crate::schema::Schema;
use crate::{MAX_TABLES, MAX_THREADS};

/// Identifier of a table in the catalog.
pub type TableId = u32;

/// A view over the persistent catalog of a formatted device.
#[derive(Clone)]
pub struct Catalog {
    dev: PmemDevice,
}

impl Catalog {
    /// Open the catalog of a formatted device, verifying the superblock.
    pub fn open(dev: PmemDevice, ctx: &mut MemCtx) -> Result<Catalog, StorageError> {
        layout::check(&dev, ctx)?;
        Ok(Catalog { dev })
    }

    /// The underlying device.
    pub fn device(&self) -> &PmemDevice {
        &self.dev
    }

    // --- Tables ---------------------------------------------------------

    /// Register a new table, persisting its schema; returns the table id.
    pub fn create_table(&self, schema: &Schema, ctx: &mut MemCtx) -> Result<TableId, StorageError> {
        let blob = schema.encode();
        if blob.len() + 4 > SCHEMA_AREA as usize {
            return Err(StorageError::SchemaTooLarge {
                encoded: blob.len(),
                max: SCHEMA_AREA as usize - 4,
            });
        }
        let id = self.dev.fetch_add_u64(PAddr(SB_NUM_TABLES), 1, ctx);
        if id as usize >= MAX_TABLES {
            return Err(StorageError::TableLimit);
        }
        let entry = table_entry(id as u32);
        self.dev
            .write(entry, &(blob.len() as u32).to_le_bytes(), ctx);
        self.dev.write(entry.add(4), &blob, ctx);
        Ok(id as TableId)
    }

    /// Number of registered tables.
    pub fn num_tables(&self, ctx: &mut MemCtx) -> u32 {
        self.dev.load_u64(PAddr(SB_NUM_TABLES), ctx) as u32
    }

    /// Read back the schema of table `t`.
    pub fn schema(&self, t: TableId, ctx: &mut MemCtx) -> Result<Schema, StorageError> {
        if t >= self.num_tables(ctx) {
            return Err(StorageError::NoSuchTable(t));
        }
        let entry = table_entry(t);
        let mut len4 = [0u8; 4];
        self.dev.read(entry, &mut len4, ctx);
        let len = u32::from_le_bytes(len4) as usize;
        if len + 4 > SCHEMA_AREA as usize {
            return Err(StorageError::SchemaDecode("length out of range"));
        }
        let mut blob = vec![0u8; len];
        self.dev.read(entry.add(4), &mut blob, ctx);
        Schema::decode(&blob)
    }

    // --- Per-table, per-thread heap metadata ----------------------------

    fn te_word(&self, t: TableId, base: u64, thread: usize) -> PAddr {
        debug_assert!(thread < MAX_THREADS);
        table_entry(t).add(base + thread as u64 * 8)
    }

    /// First heap page of `(table, thread)`, or 0.
    pub fn heap_head(&self, t: TableId, thread: usize, ctx: &mut MemCtx) -> u64 {
        self.dev.load_u64(self.te_word(t, TE_HEADS, thread), ctx)
    }

    /// Set the first heap page of `(table, thread)`.
    pub fn set_heap_head(&self, t: TableId, thread: usize, addr: u64, ctx: &mut MemCtx) {
        let w = self.te_word(t, TE_HEADS, thread);
        self.dev.store_u64(w, addr, ctx);
        self.dev.clwb_if_adr(w, ctx);
    }

    /// Last heap page of `(table, thread)`, or 0.
    pub fn heap_tail(&self, t: TableId, thread: usize, ctx: &mut MemCtx) -> u64 {
        self.dev.load_u64(self.te_word(t, TE_TAILS, thread), ctx)
    }

    /// Set the last heap page of `(table, thread)`.
    pub fn set_heap_tail(&self, t: TableId, thread: usize, addr: u64, ctx: &mut MemCtx) {
        let w = self.te_word(t, TE_TAILS, thread);
        self.dev.store_u64(w, addr, ctx);
        self.dev.clwb_if_adr(w, ctx);
    }

    /// Delete-list head of `(table, thread)`, or 0.
    pub fn delete_head(&self, t: TableId, thread: usize, ctx: &mut MemCtx) -> u64 {
        self.dev
            .load_u64(self.te_word(t, TE_DEL_HEADS, thread), ctx)
    }

    /// Set the delete-list head of `(table, thread)`.
    pub fn set_delete_head(&self, t: TableId, thread: usize, addr: u64, ctx: &mut MemCtx) {
        let w = self.te_word(t, TE_DEL_HEADS, thread);
        self.dev.store_u64(w, addr, ctx);
        self.dev.clwb_if_adr(w, ctx);
    }

    /// Delete-list tail of `(table, thread)`, or 0.
    pub fn delete_tail(&self, t: TableId, thread: usize, ctx: &mut MemCtx) -> u64 {
        self.dev
            .load_u64(self.te_word(t, TE_DEL_TAILS, thread), ctx)
    }

    /// Set the delete-list tail of `(table, thread)`.
    pub fn set_delete_tail(&self, t: TableId, thread: usize, addr: u64, ctx: &mut MemCtx) {
        let w = self.te_word(t, TE_DEL_TAILS, thread);
        self.dev.store_u64(w, addr, ctx);
        self.dev.clwb_if_adr(w, ctx);
    }

    // --- Log windows -----------------------------------------------------

    /// Address of thread `t`'s small log window, or 0 if unregistered.
    pub fn log_window(&self, thread: usize, ctx: &mut MemCtx) -> u64 {
        debug_assert!(thread < MAX_THREADS);
        self.dev
            .load_u64(PAddr(LOG_WINDOW_ADDRS + thread as u64 * 8), ctx)
    }

    /// Register thread `t`'s small log window address.
    pub fn set_log_window(&self, thread: usize, addr: u64, ctx: &mut MemCtx) {
        debug_assert!(thread < MAX_THREADS);
        self.dev
            .store_u64(PAddr(LOG_WINDOW_ADDRS + thread as u64 * 8), addr, ctx);
    }

    // --- Index root slots -------------------------------------------------

    /// Read word `w` (0..8) of index-root slot `s`.
    pub fn index_root(&self, s: usize, w: usize, ctx: &mut MemCtx) -> u64 {
        debug_assert!(s < INDEX_SLOTS && w < 8);
        self.dev.load_u64(index_slot(s).add(w as u64 * 8), ctx)
    }

    /// Write word `w` of index-root slot `s`.
    pub fn set_index_root(&self, s: usize, w: usize, val: u64, ctx: &mut MemCtx) {
        debug_assert!(s < INDEX_SLOTS && w < 8);
        self.dev
            .store_u64(index_slot(s).add(w as u64 * 8), val, ctx);
    }

    // --- Epoch and timestamp hint -----------------------------------------

    /// Current crash epoch.
    pub fn epoch(&self, ctx: &mut MemCtx) -> u64 {
        self.dev.load_u64(PAddr(SB_EPOCH), ctx)
    }

    /// Increment the crash epoch (called once per recovery); returns the
    /// new value.
    pub fn bump_epoch(&self, ctx: &mut MemCtx) -> u64 {
        self.dev.fetch_add_u64(PAddr(SB_EPOCH), 1, ctx) + 1
    }

    /// The persistent timestamp floor for TID generation.
    pub fn ts_hint(&self, ctx: &mut MemCtx) -> u64 {
        self.dev.load_u64(PAddr(SB_TS_HINT), ctx)
    }

    /// Raise the persistent timestamp floor (monotonic).
    pub fn raise_ts_hint(&self, ts: u64, ctx: &mut MemCtx) {
        // A CAS loop keeps the hint monotonic under concurrent raises.
        loop {
            let cur = self.dev.load_u64(PAddr(SB_TS_HINT), ctx);
            if ts <= cur {
                return;
            }
            if self.dev.cas_u64(PAddr(SB_TS_HINT), cur, ts, ctx).is_ok() {
                return;
            }
        }
    }
}

impl core::fmt::Debug for Catalog {
    fn fmt(&self, f: &mut core::fmt::Formatter<'_>) -> core::fmt::Result {
        f.debug_struct("Catalog").finish()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::schema::ColType;
    use pmem_sim::SimConfig;

    fn setup() -> (PmemDevice, Catalog, MemCtx) {
        let dev = PmemDevice::new(SimConfig::small()).unwrap();
        layout::format(&dev).unwrap();
        let mut ctx = MemCtx::new(0);
        let cat = Catalog::open(dev.clone(), &mut ctx).unwrap();
        (dev, cat, ctx)
    }

    fn schema(name: &str) -> Schema {
        Schema::new(name, &[("k", ColType::U64), ("v", ColType::Bytes(100))])
    }

    #[test]
    fn open_requires_format() {
        let dev = PmemDevice::new(SimConfig::small()).unwrap();
        let mut ctx = MemCtx::new(0);
        assert!(Catalog::open(dev, &mut ctx).is_err());
    }

    #[test]
    fn open_rejects_an_unknown_format_version() {
        let (dev, _, mut ctx) = setup();
        dev.store_u64(PAddr(crate::layout::SB_VERSION), 2, &mut ctx);
        assert!(matches!(
            Catalog::open(dev, &mut ctx),
            Err(StorageError::BadVersion { found: 2 })
        ));
    }

    #[test]
    fn create_and_read_tables() {
        let (_, cat, mut ctx) = setup();
        let a = cat.create_table(&schema("alpha"), &mut ctx).unwrap();
        let b = cat.create_table(&schema("beta"), &mut ctx).unwrap();
        assert_eq!((a, b), (0, 1));
        assert_eq!(cat.num_tables(&mut ctx), 2);
        assert_eq!(cat.schema(a, &mut ctx).unwrap().name, "alpha");
        assert_eq!(cat.schema(b, &mut ctx).unwrap().name, "beta");
        assert!(matches!(
            cat.schema(7, &mut ctx),
            Err(StorageError::NoSuchTable(7))
        ));
    }

    #[test]
    fn table_limit_enforced() {
        let (_, cat, mut ctx) = setup();
        for i in 0..MAX_TABLES {
            cat.create_table(&schema(&format!("t{i}")), &mut ctx)
                .unwrap();
        }
        assert_eq!(
            cat.create_table(&schema("overflow"), &mut ctx),
            Err(StorageError::TableLimit)
        );
    }

    #[test]
    fn schema_survives_crash() {
        let (dev, cat, mut ctx) = setup();
        cat.create_table(&schema("durable"), &mut ctx).unwrap();
        dev.crash();
        let cat2 = Catalog::open(dev, &mut ctx).unwrap();
        assert_eq!(cat2.schema(0, &mut ctx).unwrap().name, "durable");
    }

    #[test]
    fn heap_words_are_per_thread_and_per_table() {
        let (_, cat, mut ctx) = setup();
        cat.create_table(&schema("a"), &mut ctx).unwrap();
        cat.create_table(&schema("b"), &mut ctx).unwrap();
        cat.set_heap_head(0, 3, 0x1000, &mut ctx);
        cat.set_heap_tail(0, 3, 0x2000, &mut ctx);
        cat.set_delete_head(1, 3, 0x3000, &mut ctx);
        cat.set_delete_tail(1, 5, 0x4000, &mut ctx);
        assert_eq!(cat.heap_head(0, 3, &mut ctx), 0x1000);
        assert_eq!(cat.heap_tail(0, 3, &mut ctx), 0x2000);
        assert_eq!(cat.heap_head(1, 3, &mut ctx), 0);
        assert_eq!(cat.delete_head(1, 3, &mut ctx), 0x3000);
        assert_eq!(cat.delete_tail(1, 5, &mut ctx), 0x4000);
        assert_eq!(cat.delete_head(0, 3, &mut ctx), 0);
    }

    #[test]
    fn log_windows_and_index_roots() {
        let (_, cat, mut ctx) = setup();
        cat.set_log_window(7, 0xAB00, &mut ctx);
        assert_eq!(cat.log_window(7, &mut ctx), 0xAB00);
        assert_eq!(cat.log_window(8, &mut ctx), 0);
        cat.set_index_root(2, 0, 0xCD00, &mut ctx);
        cat.set_index_root(2, 1, 0xEF00, &mut ctx);
        assert_eq!(cat.index_root(2, 0, &mut ctx), 0xCD00);
        assert_eq!(cat.index_root(2, 1, &mut ctx), 0xEF00);
        assert_eq!(cat.index_root(3, 0, &mut ctx), 0);
    }

    #[test]
    fn epoch_and_ts_hint() {
        let (_, cat, mut ctx) = setup();
        assert_eq!(cat.epoch(&mut ctx), 0);
        assert_eq!(cat.bump_epoch(&mut ctx), 1);
        assert_eq!(cat.epoch(&mut ctx), 1);
        cat.raise_ts_hint(100, &mut ctx);
        cat.raise_ts_hint(50, &mut ctx);
        assert_eq!(cat.ts_hint(&mut ctx), 100, "hint is monotonic");
        cat.raise_ts_hint(200, &mut ctx);
        assert_eq!(cat.ts_hint(&mut ctx), 200);
    }
}
